"""Box complexes and generic two-shore simplicial complexes with a free swap.

Tokens of a complex are laid out as all white-shore copies first, then all
black-shore copies, so the involution is a half-shift: token t mirrors to
t +- h where h is the shore size.  Simplices are int bitmasks over tokens.
A materialized complex is a ``FaceTable`` (dense ids in mask order, with
every face's mirror and pivot as ids, which the collapses and the homology
share) and its simplex sets are ``Faces`` drawn from it.  No face's full
boundary is kept: the collapses build rows per mirror pair
(``morse._CollapseState``) and the homology reads one pivot per face.

A box complex lists its faces cube by cube from the adjacency over its
shore positions (``_box_faces``); a complex given by facets alone
(``make_complex``, ``parse_complex``) walks the subsets of its facets.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Set
from dataclasses import dataclass, field
from itertools import compress

from .bitset import bits, holders, mask_of
from .errors import DEFAULT_BUDGETS, ContractError, ParameterError, ParseError, ResourceError, ints, records
from .functors import Homomorphism
from .graphs import Graph


class FaceTable:
    """Faces sorted by mask value, with dense ids in that order.

    ``masks[i]`` is face i and ``index`` inverts it; a list of masks is
    sorted in place and kept, any other iterable copied.  ``mirrors(h)``
    gives every face's mirror as an id, and ``pivots()`` every face's face
    without its lowest token, both built once; a maker that knows the
    pivots as it makes the faces, as the cube walk of a box complex does,
    passes them in.  That walk also passes ``starts``, the id where each
    cube begins, with ``len(masks)`` appended: a cube's faces are its first
    face ORed with the submasks of its directions in doubling order (offset
    j holds the directions at the set bits of j), and every direction token
    lies below every token of the first face.  A table made without them
    has ``starts`` None and reads as one-face cubes.  ``closed`` is fixed
    when the table is made: True only when its maker knows that every
    codimension-1 face of a face is in the table, as ``Z2Complex.simplices``
    does; False means unknown, and ``Faces.is_closed`` then scans.  Ids in
    mask order make a heap of ids pop in mask order.
    """

    __slots__ = ("masks", "index", "closed", "starts", "_mirrors", "_pivots")

    def __init__(
        self,
        masks: Iterable[int],
        closed: bool = False,
        pivots: array | None = None,
        starts: array | None = None,
    ):
        self.masks = masks if isinstance(masks, list) else list(masks)  # distinct
        self.masks.sort()  # one pass when sorted already
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.closed = closed
        self.starts = starts
        self._mirrors: tuple[int, array] | None = None
        self._pivots = pivots

    def mirrors(self, h: int) -> array:
        """The id of every face's mirror under the half-shift swap of shores
        of h positions, or -1 where the mirror is not in the table; built
        once, with one lookup per mirror pair.  The lesser mask of a pair
        is the one whose black half is below its white half.  Keyed by h
        rather than by a complex's ``mirror``, so that the table keeps no
        reference to a complex."""
        if self._mirrors is None or self._mirrors[0] != h:
            get, white = self.index.get, (1 << h) - 1
            out = array("i", [-1]) * len(self.masks)
            for i, m in enumerate(self.masks):
                lo, hi = m & white, m >> h
                if hi < lo:
                    if (j := get(hi | lo << h)) is not None:
                        out[i], out[j] = j, i
                elif hi == lo:  # the swap fixes it
                    out[i] = i
            self._mirrors = h, out
        return self._mirrors[1]

    def pivots(self) -> array:
        """The id of every face without its lowest token, or -1 where that
        face is not in the table; built once with one lookup per face,
        unless the table was made with them.  It is the greatest id among a
        face's codimension-1 faces, and ``betti_mod2`` reads a column's
        pivot there."""
        if self._pivots is None:
            get = self.index.get
            self._pivots = array("i", (get(s ^ (s & -s), -1) for s in self.masks))
        return self._pivots

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
    byte per id.  ``-`` works on the flags and keeps the table, and ``<=``
    (so ``==`` and ``<`` too) compares two sets of one table on their
    flags, both a few KB at a time; the other set operations work as for
    any set."""

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

    def _flag_chunks(self, other: Faces):
        """The flags of this set and of ``other``, from the same table, as
        ints 8 KB at a time with their length: no int is as long as the
        table."""
        a, b, step = self.flags, other.flags, 1 << 13
        for i in range(0, len(a), step):
            x, y = a[i : i + step], b[i : i + step]
            yield len(x), int.from_bytes(x, "little"), int.from_bytes(y, "little")

    def __sub__(self, other):
        if not isinstance(other, Iterable):
            return NotImplemented
        chunks = self._flag_chunks(self.drawn(other))
        return Faces(self.table, b"".join((x & ~y).to_bytes(k, "little") for k, x, y in chunks))

    def __le__(self, other):
        if isinstance(other, Faces) and other.table is self.table:
            return not any(x & ~y for _, x, y in self._flag_chunks(other))
        return Set.__le__(self, other)

    __hash__ = Set._hash

    def is_closed(self) -> bool:
        """True iff every codimension-1 face of a member is a member: at
        once for the whole of a table made closed, else by a scan of the
        members."""
        if self.table.closed and self._len == len(self.flags):
            return True
        flags, get = self.flags, self.table.index.get
        # a vertex's only facet is empty, and so no face
        return all(
            (f := get(s ^ 1 << t)) is not None and flags[f] == 1
            for s in self
            if s & (s - 1)
            for t in bits(s)
        )


@dataclass
class Z2Complex:
    """Facet-presented simplicial complex with the shore-swap involution.

    ``base[p]`` names the object behind shore position p (a graph vertex id
    for box complexes, an arbitrary id for synthetic complexes); token p is
    its white copy and token p + h its black copy.  Callers move between
    shores through ``mirror``, ``mirror_token``, ``split`` and ``token``,
    except ``FaceTable.mirrors`` and ``morse._phase_partners``, which run
    once per face and inline the same shifts and masks.  The complex is its
    base and its facets, and whether the swap is free is read from the
    facets on each call.  A box complex also holds ``rows``, the adjacency
    over its shore positions that its facets and faces are read from,
    which takes no part in equality; any other complex has none.
    """

    base: tuple[int, ...]
    facets: tuple[int, ...]
    # rows[p]: the positions adjacent to position p, for a box complex only
    rows: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    h: int = field(init=False, repr=False, compare=False)
    # mask of the white tokens, which is also the mask of all shore positions
    white: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.h = len(self.base)
        self.white = (1 << self.h) - 1

    @property
    def free(self) -> bool:
        """True iff the swap fixes no face: no facet meets its mirror."""
        return all(f & self.mirror(f) == 0 for f in self.facets)

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

    def simplices(self, budget: int = DEFAULT_BUDGETS.simplex_budget) -> Faces:
        """All faces of all facets, materialized into a new face table on
        every call, made closed.

        A box complex lists its faces cube by cube from its rows, with
        every pivot, and counts them exactly before it makes any
        (``_box_faces``).  Any other complex walks each facet's faces as a
        subset tree: a node is a face and the tokens it may still drop, a
        child drops one of them and keeps only those below it, so every
        nonempty subset of the facet is reached once.  The faces seen are
        closed downward between facets, so a child seen before came from
        an earlier facet with all its subfaces, and its subtree is skipped.
        Every codimension-1 face of a face is thus in the table.

        The budget bounds the distinct faces.  On the facet walk, a facet
        of t tokens has 2^t - 1 faces, so one facet over the budget is
        refused before any face is built; otherwise the walk stops as soon
        as the count passes the budget and names the facet it reached, the
        i-th of m."""
        if self.rows is not None:
            return _box_faces(self.rows, budget)
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
                s, drop = stack.pop()
                rest = drop
                while rest:
                    low = rest & -rest
                    rest ^= low
                    child = s ^ low
                    if child and child not in seen:
                        add(child)
                        if keep := drop & (low - 1):
                            stack.append((child, keep))
                if len(seen) > budget:
                    raise ResourceError(
                        f"simplex budget {budget} exceeded after {i} of {len(self.facets)} facets"
                    )
        masks = sorted(seen)
        seen.clear()  # before the table builds its index
        return FaceTable(masks, closed=True).faces()

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


def make_complex(base, facets) -> Z2Complex:
    """Build a Z2Complex from arbitrary facet masks: refuse tokens beyond the
    table before mirroring folds them into range, then dedupe, close under
    the mirror, maximalize (the result stays mirror-closed) and sort."""
    out = Z2Complex(tuple(base), ())
    facets = list(facets)
    if any(f >> out.token_count for f in facets):
        raise ParameterError("facet uses tokens beyond the vertex table")
    closed = {m for f in facets if f for m in (f, out.mirror(f))}
    out.facets = _facet_order(_maximal(list(closed)))
    return out


def _facet_order(facets: list[int]) -> tuple[int, ...]:
    """An antichain of facets in the order of their ascending token lists.
    That is the descending order of their masks with the bits reversed
    within one width: the lowest token where two facets differ is in the
    earlier, and no facet's tokens are a prefix of another's, as no facet
    contains another.  The keys are ints, 1 bit per token of width, where
    strings would take a byte."""
    top = 1 << max(facets, default=0).bit_length()
    return tuple(sorted(facets, key=lambda m: int(bin(m | top)[:2:-1], 2), reverse=True))


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
    CN(A).  The swap action is free exactly when g has no loops.  The
    complex keeps the adjacency over its positions, which its closed sets
    are folded from and its faces listed from (``Z2Complex.simplices``).

    The facets need no ``validate``: A within B forces CN(B) within CN(A),
    so of two nested facets the shores are equal, and (CN(A), A) is the
    facet of the closed set CN(A), so the list is swap-symmetric."""
    vlist = [v for v in range(g.n) if g.adj[v]]
    pos = {v: i for i, v in enumerate(vlist)}
    rows = tuple(mask_of(pos[u] for u in bits(g.adj[v])) for v in vlist)
    h = len(rows)
    facets = []
    for a in _closed_sets(rows):
        cn = (1 << h) - 1
        for p in bits(a):
            cn &= rows[p]
        if a and cn:
            facets.append(a | cn << h)
    return Z2Complex(tuple(vlist), _facet_order(facets), rows)


def _closed_sets(rows: tuple[int, ...]) -> set[int]:
    """All Galois-closed position sets A = CN(CN(A)).  These are exactly the
    intersections of rows, all positions being the empty intersection."""
    family = {(1 << len(rows)) - 1}
    for row in rows:
        family |= {a & row for a in family}
    return family


def _box_faces(rows: tuple[int, ...], budget: int) -> Faces:
    """The faces of the box complex over the position rows, in a closed
    table made with every pivot.

    A face is A + B, white A and black B, with A x B within the edges; one
    shore may be empty only if the other has a common neighbour.  So for
    each shore set B (nonempty, with a common neighbour) the faces are
    (B, empty) and (A, B) for every A within CN(B).  B sits above A in a
    mask, so in mask order block 0 is the shore sets, ascending, and then
    each B's block is B << h with the submasks of CN(B), ascending.

    The shore sets are walked depth first, a child adding a position below
    its parent's lowest and ANDing that row into CN; children come in
    ascending order, so the sets come ascending, and a node offers its
    children only the positions that passed at it.  When every child keeps
    CN whole (always when CN is one position) the subtree is the cube of
    the sets B | X for X within the children's positions F, and is recorded
    whole.  A record counts 2^|F| (1 + 2^|CN(B)|) faces, so the count is
    exact and the budget refuses before any face is made.

    A record's faces are two cubes of contiguous ids: B with the submasks
    of F in block 0, and B << h with those of F << h | CN(B) after it.  A
    pivot drops the lowest token: the j-th face of a cube, j > 0, drops the
    lowest token of its submask, leaving the face j - (j & -j) of the
    cube; the first drops B's lowest position, leaving the first face of
    the parent's one-set record in the same block, or nothing when B is
    one position.  The table is also given the id where each cube starts,
    which ``morse._pair_rows`` reads the codimension-1 faces within a cube
    from."""
    h, white = len(rows), (1 << len(rows)) - 1
    records = []  # (B, F, CN(B), the parent's record or -1), ascending
    count = 0
    stack = [(0, white, white, -1)]  # a node: B, CN(B), the positions it may add, parent
    while stack:
        b, cn, free, parent = stack.pop()
        here, kids, passed, whole = len(records) if b else -1, [], 0, True
        for p in bits(free):
            if c := cn & rows[p]:
                kids.append((b | 1 << p, c, passed, here))
                passed |= 1 << p
                whole = whole and c == cn
        if b:
            f = passed if whole else 0
            count += (1 + (1 << cn.bit_count())) << f.bit_count()
            if count > budget:
                raise ResourceError(f"simplex budget {budget} exceeded")
            records.append((b, f, cn, parent))
            if whole:
                continue
        stack += reversed(kids)

    masks, pivots, starts = [], array("i"), array("i")
    tails: dict[int, list[int]] = {}  # cube size k -> j - (j & -j) for 0 < j < k
    for lifted in (False, True):  # block 0, then the blocks of the sets
        firsts = []  # the id of each record's first face in this pass
        for b, f, cn, parent in records:
            firsts.append(len(masks))
            cube, dirs = ([b << h], f << h | cn) if lifted else ([b], f)
            while dirs:
                low = dirs & -dirs
                dirs ^= low
                cube += [m | low for m in cube]
            if (tail := tails.get(len(cube))) is None:
                tail = tails[len(cube)] = [j - (j & -j) for j in range(1, len(cube))]
            pivots.append(firsts[parent] if parent >= 0 else -1)
            pivots.extend(map(firsts[-1].__add__, tail))
            masks += cube
        starts.extend(firsts)
    starts.append(len(masks))
    return FaceTable(masks, closed=True, pivots=pivots, starts=starts).faces()


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
        return mask_of(self.vertex_map[t] for t in bits(mask))

    def compose(self, first: "SimplicialZ2Map") -> "SimplicialZ2Map":
        return SimplicialZ2Map(
            first.source,
            self.target,
            tuple(self.vertex_map[t] for t in first.vertex_map),
        )


def induced_map(hom: Homomorphism) -> SimplicialZ2Map:
    """The shore-preserving token map (v, *) -> (h(v), *) between the box
    complexes of the homomorphism's source and target."""
    source, target = build_box(hom.source), build_box(hom.target)
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
    facet_rows: list[list[int]] = []
    for lineno, _, parts in records(text):
        if parts[0] == "c":
            if count is not None:
                raise ParseError("duplicate c line", lineno)
            if len(parts) != 2:
                raise ParseError("c line must be 'c <num_vertices>'", lineno)
            [count] = ints(parts[1:], "vertex count must be an integer", lineno)
            if count < 0 or count % 2:
                raise ParseError("vertex count must be even and nonnegative", lineno)
        elif parts[0] == "n":
            if count is None:
                raise ParseError("n line before c line", lineno)
            if len(parts) != 4 or parts[3] not in ("+", "-"):
                raise ParseError("n line must be 'n <id> <graph-vertex> <+|->'", lineno)
            tid, gv = ints(parts[1:3], "n line fields must be integers", lineno)
            if not 0 <= tid < count:
                raise ParseError(f"token id {tid} out of range", lineno)
            if tid in tokens:
                raise ParseError(f"duplicate token id {tid}", lineno)
            tokens[tid] = (gv, parts[3])
        elif parts[0] == "f":
            if count is None:
                raise ParseError("f line before c line", lineno)
            ids = ints(parts[1:], "facet ids must be integers", lineno)
            if not ids:
                raise ParseError("facet line must list at least one token", lineno)
            if any(not 0 <= t < count for t in ids):
                raise ParseError("facet token id out of range", lineno)
            facet_rows.append(ids)
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
    facets = [mask_of(new_pos[t] for t in ids) for ids in facet_rows]
    return make_complex(tuple(whites), facets)
