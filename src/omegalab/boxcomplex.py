"""Box complexes and generic two-shore simplicial complexes with a free swap.

Tokens of a complex are laid out as all white-shore copies first, then all
black-shore copies, so the involution is a half-shift: token t mirrors to
t +- h where h is the shore size.  Simplices are int bitmasks over tokens.
A materialized complex is a ``FaceTable`` (dense ids and boundaries, which
the collapses and the homology share) and its simplex sets are ``Faces``
drawn from it.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Set
from dataclasses import dataclass, field
from itertools import compress

from .bitset import bits, holders, mask_of
from .errors import ContractError, ParameterError, ParseError, ResourceError
from .functors import Homomorphism
from .graphs import Graph, common_neighborhood

DEFAULT_SIMPLEX_BUDGET = 10**7


class FaceTable:
    """Faces sorted by mask value, with dense ids in that order.

    ``masks[i]`` is face i and ``index`` inverts it.  ``boundary()`` gives
    every face's codimension-1 faces as ids, in flat CSR form: those of face
    i are ``ids[offsets[i]:offsets[i + 1]]``.  A face whose codimension-1
    faces are not all in the table keeps the ones that are; ``closed``, set
    with the boundary, says whether none was missing.  ``mirrors(h)`` gives
    every face's mirror as an id.  Ids in mask order make a heap of ids pop
    in mask order.
    """

    __slots__ = ("masks", "index", "closed", "_boundary", "_mirrors")

    def __init__(self, masks: Iterable[int]):
        self.masks = sorted(masks)  # distinct masks
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.closed: bool | None = None
        self._boundary: tuple[array, array] | None = None
        self._mirrors: tuple[int, array] | None = None

    def boundary(self) -> tuple[array, array]:
        """``(offsets, ids)`` of every face's codimension-1 faces, built once."""
        if self._boundary is None:
            get = self.index.get
            offsets = array("i", [0])
            ids = array("i")
            closed = True
            for s in self.masks:
                if s & (s - 1):  # a vertex's only facet is empty, and so no face
                    m = s
                    while m:
                        low = m & -m
                        m ^= low
                        f = get(s ^ low)
                        if f is None:
                            closed = False
                        else:
                            ids.append(f)
                offsets.append(len(ids))
            self.closed = closed
            self._boundary = offsets, ids
        return self._boundary

    def mirrors(self, h: int) -> array:
        """The id of every face's mirror under the half-shift swap of shores
        of h positions, or -1 where the mirror is not in the table; built
        once.  Keyed by h rather than by a complex's ``mirror``: a complex
        holds its own table, so holding the method would make a reference
        cycle that only the cyclic collector frees."""
        if self._mirrors is None or self._mirrors[0] != h:
            get, white = self.index.get, (1 << h) - 1
            self._mirrors = h, array("i", (get(m >> h | (m & white) << h, -1) for m in self.masks))
        return self._mirrors[1]

    def faces(self, masks: Iterable[int] | None = None) -> Faces:
        """All faces of the table, or the members of ``masks`` that are in it."""
        if masks is None:
            return Faces(self, b"\x01" * len(self.masks))
        flags = bytearray(len(self.masks))
        for m in masks:
            i = self.index.get(m)
            if i is not None:
                flags[i] = 1
        return Faces(self, flags)


class Faces(Set):
    """An immutable set of face masks drawn from a ``FaceTable``: one flag
    byte per id.  ``-`` works on the flags and keeps the table; the other
    set operations work as for any set."""

    __slots__ = ("table", "flags", "_len")

    def __init__(self, table: FaceTable, flags: bytes | bytearray):
        self.table = table
        self.flags = bytes(flags)
        self._len = self.flags.count(1)

    @classmethod
    def of(cls, masks: Iterable[int]) -> Faces:
        """``masks`` itself if drawn from a table, else a new table's faces."""
        if isinstance(masks, Faces):
            return masks
        return FaceTable(masks if isinstance(masks, (set, frozenset)) else set(masks)).faces()

    @classmethod
    def _from_iterable(cls, it) -> set[int]:
        return set(it)

    def __contains__(self, mask) -> bool:
        i = self.table.index.get(mask)
        return i is not None and self.flags[i] == 1

    def __iter__(self):
        return compress(self.table.masks, self.flags)

    def __len__(self) -> int:
        return self._len

    def ids(self):
        """The members' ids, ascending."""
        return compress(range(len(self.flags)), self.flags)

    def drawn(self, other: Iterable[int]) -> Faces:
        """The members of ``other`` that are faces of this table, drawn from it."""
        if isinstance(other, Faces) and other.table is self.table:
            return other
        return self.table.faces(other)

    def __sub__(self, other):
        if not isinstance(other, Iterable):
            return NotImplemented
        a = int.from_bytes(self.flags, "little")
        b = int.from_bytes(self.drawn(other).flags, "little")
        return Faces(self.table, (a & ~b).to_bytes(len(self.flags), "little"))

    __hash__ = Set._hash

    def is_closed(self) -> bool:
        """True iff every codimension-1 face of a member is a member."""
        offsets, ids = self.table.boundary()
        if self._len == len(self.flags):
            return self.table.closed
        flags, masks = self.flags, self.table.masks
        for i in self.ids():
            s = masks[i]
            found = sum(flags[f] for f in ids[offsets[i] : offsets[i + 1]])
            if found != (s.bit_count() if s & (s - 1) else 0):
                return False
        return True


@dataclass
class Z2Complex:
    """Facet-presented simplicial complex with the shore-swap involution.

    ``base[p]`` names the object behind shore position p (a graph vertex id
    for box complexes, an arbitrary id for synthetic complexes); token p is
    its white copy and token p + h its black copy.  This class is the one
    place that knows that layout: callers move between shores only through
    ``mirror``, ``mirror_token``, ``split`` and ``token``.
    """

    base: tuple[int, ...]
    facets: tuple[int, ...]
    free: bool
    _faces: Faces | None = field(default=None, repr=False, compare=False)
    h: int = field(init=False, repr=False, compare=False)
    # mask of the white tokens, which is also the mask of all shore positions
    white: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.h = len(self.base)
        self.white = (1 << self.h) - 1

    @property
    def token_count(self) -> int:
        return 2 * self.h

    def token_name(self, t: int) -> tuple[int, str]:
        return (self.base[t % self.h], "+" if t < self.h else "-")

    def mirror(self, mask: int) -> int:
        return (mask >> self.h) | (mask & self.white) << self.h

    def mirror_token(self, t: int) -> int:
        return t - self.h if t >= self.h else t + self.h

    def split(self, mask: int) -> tuple[int, int]:
        """The positions of the mask's white tokens and of its black tokens."""
        return mask & self.white, mask >> self.h

    def token(self, p: int, black: bool) -> int:
        """The token of position p on the black shore if ``black``, else the white."""
        return p + self.h if black else p

    def membership(self, mask: int) -> bool:
        """True iff the nonempty token set is a face of some facet."""
        if mask == 0:
            return False
        return any(mask & ~f == 0 for f in self.facets)

    def simplices(self, budget: int = DEFAULT_SIMPLEX_BUDGET) -> Faces:
        """All faces of all facets, materialized once into a face table.

        Each facet's faces are walked as a subset tree: a node is a face and
        the tokens it may still drop, a child drops one of them and keeps
        only those below it, so every subset of the facet is reached once.
        The faces seen are closed downward between facets, so a child seen
        before came from an earlier facet with all its subfaces, and its
        subtree is skipped.

        The budget bounds the distinct faces.  A facet of t tokens has
        2^t - 1 faces, so one facet over the budget is refused before any
        face is built; otherwise the walk stops as soon as the count passes
        the budget and names the facet it reached, the i-th of m."""
        if self._faces is None:
            if (1 << max((f.bit_count() for f in self.facets), default=0)) - 1 > budget:
                raise ResourceError(f"simplex budget {budget} exceeded")
            seen: set[int] = set()
            add = seen.add
            for i, f in enumerate(self.facets, 1):
                if f in seen:
                    continue
                add(f)
                stack = [(f, f)]
                while stack:
                    s, free = stack.pop()
                    rest = free
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        child = s ^ low
                        if child and child not in seen:
                            add(child)
                            if keep := free & (low - 1):
                                stack.append((child, keep))
                    if len(seen) > budget:
                        raise ResourceError(
                            f"simplex budget {budget} exceeded after {i} of {len(self.facets)} facets"
                        )
            self._faces = Faces.of(seen)
        return self._faces

    def validate(self) -> None:
        h = self.h
        full = (1 << (2 * h)) - 1
        for f in self.facets:
            if f & ~full:
                raise ParameterError("facet uses tokens beyond the vertex table")
        if len(_maximal(self.facets)) != len(self.facets):
            raise ParameterError("facet list is not an antichain")
        mirrored = sorted(self.mirror(f) for f in self.facets)
        if mirrored != sorted(self.facets):
            raise ParameterError("facet list is not swap-symmetric")
        really_free = all(f & self.mirror(f) == 0 for f in self.facets)
        if really_free != self.free:
            raise ContractError("free flag disagrees with the facet list")


def make_complex(base, facets) -> Z2Complex:
    """Build a Z2Complex from arbitrary facet masks: dedupe, maximalize,
    close under the mirror, sort canonically, and set the free flag."""
    out = Z2Complex(tuple(base), (), True)
    closed = {m for f in facets if f for m in (f, out.mirror(f))}
    maximal = _maximal(list(closed))
    maximal.sort(key=lambda m: tuple(bits(m)))
    out.facets = tuple(maximal)
    out.free = all(f & out.mirror(f) == 0 for f in maximal)
    out.validate()
    return out


def _maximal(masks) -> list[int]:
    """The masks that no other entry contains; a repeated mask contains its
    copy.  Entry i is maximal iff the AND, over its tokens, of the set of
    entries holding that token is entry i alone."""
    held = holders(masks)
    out = []
    for i, m in enumerate(masks):
        above = (1 << len(masks)) - 1
        for t in bits(m):
            above &= held[t]
        if above == 1 << i:
            out.append(m)
    return out


def build_box(g: Graph) -> Z2Complex:
    """Box complex: isolated vertices dropped, facets are the closed pairs
    (A, CN(A)) with both sides nonempty, white copy of A with black copy of
    CN(A).  The swap action is free exactly when g has no loops."""
    vlist = [v for v in range(g.n) if g.adj[v]]
    pos = {v: i for i, v in enumerate(vlist)}
    h = len(vlist)
    facets = []
    for a_mask in _closed_sets(g):
        cn = common_neighborhood(g, a_mask)
        if a_mask and cn:
            white = mask_of(pos[v] for v in bits(a_mask))
            black = mask_of(h + pos[v] for v in bits(cn))
            facets.append(white | black)
    facets.sort(key=lambda m: tuple(bits(m)))
    out = Z2Complex(tuple(vlist), tuple(facets), not g.has_loops())
    out.validate()
    return out


def _closed_sets(g: Graph) -> set[int]:
    """All Galois-closed vertex sets A = CN(CN(A)).  These are exactly the
    intersections of neighbourhoods, V being the empty intersection."""
    family = {g.vertex_mask()}
    for row in g.adj:
        if row:
            family |= {a & row for a in family}
    return family


@dataclass(frozen=True)
class SimplicialZ2Map:
    """Token map between complexes that is simplicial and swap-equivariant."""

    source: Z2Complex
    target: Z2Complex
    vertex_map: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertex_map) != self.source.token_count:
            raise ContractError("vertex map must be total on source tokens")
        for t, img in enumerate(self.vertex_map):
            if self.vertex_map[self.source.mirror_token(t)] != self.target.mirror_token(img):
                raise ContractError(f"map does not commute with the swap at token {t}")
        for f in self.source.facets:
            if not self.target.membership(self.image(f)):
                raise ContractError("a facet maps outside the target complex")

    def image(self, mask: int) -> int:
        out = 0
        for t in bits(mask):
            out |= 1 << self.vertex_map[t]
        return out

    def compose(self, first: "SimplicialZ2Map") -> "SimplicialZ2Map":
        return SimplicialZ2Map(
            first.source,
            self.target,
            tuple(self.vertex_map[t] for t in first.vertex_map),
        )


def induced_map(
    hom: Homomorphism,
    source: Z2Complex | None = None,
    target: Z2Complex | None = None,
) -> SimplicialZ2Map:
    """The shore-preserving token map (v, *) -> (h(v), *) on box complexes."""
    if source is None:
        source = build_box(hom.source)
    if target is None:
        target = build_box(hom.target)
    tpos = {v: i for i, v in enumerate(target.base)}
    vmap = []
    for t in range(source.token_count):
        v, shore = source.token_name(t)
        img = hom(v)
        if img not in tpos:
            raise ContractError(f"image vertex {img} is isolated in the target")
        vmap.append(target.token(tpos[img], shore == "-"))
    return SimplicialZ2Map(source, target, tuple(vmap))


# -- text format ----------------------------------------------------------------
#
#   c <num_vertices>
#   n <id> <graph-vertex> <+|->     (one line per token, ids 0..2h-1)
#   f <id1> <id2> ...               (one line per facet, ids ascending)

def format_complex(k: Z2Complex) -> str:
    lines = [f"c {k.token_count}"]
    for t in range(k.token_count):
        v, shore = k.token_name(t)
        lines.append(f"n {t} {v} {shore}")
    for f in k.facets:
        lines.append("f " + " ".join(str(t) for t in bits(f)))
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> Z2Complex:
    count = None
    tokens: dict[int, tuple[int, str]] = {}
    facet_rows: list[tuple[list[int], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "c":
            if count is not None:
                raise ParseError("duplicate c line", lineno)
            if len(parts) != 2:
                raise ParseError("c line must be 'c <num_vertices>'", lineno)
            try:
                count = int(parts[1])
            except ValueError:
                raise ParseError("vertex count must be an integer", lineno) from None
            if count < 0 or count % 2:
                raise ParseError("vertex count must be even and nonnegative", lineno)
        elif parts[0] == "n":
            if count is None:
                raise ParseError("n line before c line", lineno)
            if len(parts) != 4 or parts[3] not in ("+", "-"):
                raise ParseError("n line must be 'n <id> <graph-vertex> <+|->'", lineno)
            try:
                tid, gv = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("n line fields must be integers", lineno) from None
            if not 0 <= tid < count:
                raise ParseError(f"token id {tid} out of range", lineno)
            if tid in tokens:
                raise ParseError(f"duplicate token id {tid}", lineno)
            tokens[tid] = (gv, parts[3])
        elif parts[0] == "f":
            if count is None:
                raise ParseError("f line before c line", lineno)
            try:
                ids = [int(x) for x in parts[1:]]
            except ValueError:
                raise ParseError("facet ids must be integers", lineno) from None
            if not ids:
                raise ParseError("facet line must list at least one token", lineno)
            if any(not 0 <= t < count for t in ids):
                raise ParseError("facet token id out of range", lineno)
            facet_rows.append((ids, lineno))
        else:
            raise ParseError(f"unknown line kind {parts[0]!r}", lineno)
    if count is None:
        raise ParseError("missing c line")
    if len(tokens) != count:
        raise ParseError(f"expected {count} n lines, found {len(tokens)}")

    # normalize to the half-shift layout: white tokens sorted by graph vertex
    whites = sorted(gv for gv, shore in tokens.values() if shore == "+")
    blacks = sorted(gv for gv, shore in tokens.values() if shore == "-")
    if whites != blacks:
        raise ParseError("tokens do not pair into an involution")
    if len(set(whites)) != len(whites):
        raise ParseError("duplicate (graph-vertex, shore) token")
    h = len(whites)
    index = {gv: i for i, gv in enumerate(whites)}
    new_pos = {}
    for tid, (gv, shore) in tokens.items():
        new_pos[tid] = index[gv] if shore == "+" else h + index[gv]
    facets = []
    for ids, lineno in facet_rows:
        facets.append(mask_of(new_pos[t] for t in ids))
    return make_complex(tuple(whites), facets)
