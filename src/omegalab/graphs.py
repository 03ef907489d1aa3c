"""Loop-allowing undirected graphs over dense integer vertex ids.

Adjacency is stored as one int bitmask per vertex, which keeps the set
primitives (common neighborhood, join tests) word-parallel; those two
primitives dominate the cost of every functor construction downstream.
The walks of each exact length come from one recurrence, ``walk_rows``: the
odd-girth check, the walk power and the adjunction witness all read it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .bitset import bits, union_of
from .errors import DEFAULT_BUDGETS, ParameterError, ParseError, ResourceError, ints, records

# the most adjacency row bits (1 GiB) a graph built from an edge list may take
ROW_BIT_BUDGET = 2**33


def _check_row_bits(row_bits: int) -> None:
    """Refuse adjacency rows of more than ``ROW_BIT_BUDGET`` bits in all."""
    if row_bits > ROW_BIT_BUDGET:
        raise ResourceError(
            f"adjacency rows of {row_bits} bits exceed the row bit budget {ROW_BIT_BUDGET}"
        )


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph; vertices are 0..n-1, loops allowed.

    ``adj[v]`` is the neighbor bitmask of ``v`` (bit v set iff there is a
    loop at v).  ``labels``, when present, are unique per vertex and are
    carried through file round-trips.
    """

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ParameterError("adjacency length does not match vertex count")
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ParameterError(f"adjacency row {v} has bits beyond n-1")
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ParameterError(f"adjacency not symmetric at ({u}, {v})")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ParameterError("labels must be total")
            if len(set(self.labels)) != self.n:
                raise ParameterError("labels must be unique")

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "Graph":
        """The graph on 0..n-1 with these edges.  Row u takes (highest
        neighbour of u) + 1 bits; a total above ``ROW_BIT_BUDGET`` is
        refused before any row is allocated."""
        edges = list(edges)
        ends: dict[int, int] = {}  # vertex -> bit length of its row
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range")
            if v >= ends.get(u, 0):
                ends[u] = v + 1
            if u >= ends.get(v, 0):
                ends[v] = u + 1
        _check_row_bits(sum(ends.values()))
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows), tuple(labels) if labels is not None else None)

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def has_loops(self) -> bool:
        return any(row >> v & 1 for v, row in enumerate(self.adj))

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u <= v, sorted; loops appear once as (v, v)."""
        out = []
        for u, row in enumerate(self.adj):
            for v in bits(row):
                if v >= u:
                    out.append((u, v))
        return out

    def edge_count(self) -> int:
        return len(self.edges())

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def with_labels(self, labels) -> "Graph":
        return Graph(self.n, self.adj, tuple(labels))


# -- named families ----------------------------------------------------------

def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def biclique(n: int, m: int) -> Graph:
    return Graph.from_edges(n + m, [(i, n + j) for i in range(n) for j in range(m)])


def circular_clique(p: int, q: int) -> Graph:
    if q < 1:
        raise ParameterError(f"circular clique needs q >= 1, got {q}")
    if p < 2 * q:
        raise ParameterError(f"circular clique needs p/q >= 2, got {p}/{q}")
    edges = [(i, (i + j) % p) for i in range(p) for j in range(q, p - q + 1)]
    return Graph.from_edges(p, edges)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i--i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


_FAMILIES = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "clique": (clique, 1),
    "biclique": (biclique, 2),
    "circular_clique": (circular_clique, 2),
}


def make_family(kind: str, *params: int) -> Graph:
    if kind not in _FAMILIES:
        raise ParameterError(f"unknown family {kind!r}")
    builder, arity = _FAMILIES[kind]
    if len(params) != arity:
        raise ParameterError(f"family {kind!r} takes {arity} parameter(s)")
    if any(p <= 0 for p in params):
        raise ParameterError(f"family parameters must be positive, got {params}")
    return builder(*params)


# -- set primitives ----------------------------------------------------------

def common_neighborhood(g: Graph, a_mask: int) -> int:
    """Intersection of the neighborhoods of all vertices in ``a_mask``.

    The empty set has common neighborhood V(G).
    """
    out = g.vertex_mask()
    for v in bits(a_mask):
        out &= g.adj[v]
        if not out:
            break
    return out


def is_joined(g: Graph, a_mask: int, b_mask: int) -> bool:
    """True iff every vertex of A is adjacent to every vertex of B."""
    for v in bits(a_mask):
        if b_mask & ~g.adj[v]:
            return False
    return True


def tensor_product(
    g: Graph, h: Graph, vertex_budget: int = DEFAULT_BUDGETS.vertex_budget
) -> Graph:
    """Categorical product; vertex (u, w) gets row-major index u*h.n + w.

    Its g.n*h.n vertices count against ``vertex_budget`` and its row bits
    against ``ROW_BIT_BUDGET`` before any row is built: row (u, w) ends at
    bit (highest neighbour of u)*h.n + (bit length of w's row)."""
    hn = h.n
    if g.n * hn > vertex_budget:
        raise ResourceError(
            f"tensor product vertex budget {vertex_budget} exceeded ({g.n * hn} vertices)"
        )
    ends = [row.bit_length() for row in h.adj if row]
    row_bits = sum((row.bit_length() - 1) * hn * len(ends) + sum(ends) for row in g.adj if row)
    _check_row_bits(row_bits)
    rows = []
    for u in range(g.n):
        for w in range(h.n):
            row = 0
            for u2 in bits(g.adj[u]):
                row |= h.adj[w] << (u2 * hn)
            rows.append(row)
    return Graph(g.n * hn, tuple(rows))


def is_square_free(g: Graph) -> bool:
    """No fully joined pair of 2-sets.

    Equivalent to: no C4 subgraph, no two adjacent loops, and no triangle
    with a looped vertex; the single test |N(u) & N(v)| <= 1 over vertex
    pairs covers all three shapes.
    """
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (g.adj[u] & g.adj[v]).bit_count() > 1:
                return False
    return True


def walk_rows(g: Graph) -> Iterator[tuple[int, ...]]:
    """The adjacency rows of the walks of length exactly j = 1, 2, ...: row
    v holds the ends of those walks from v.  For j >= 1 the rows only grow
    from j to j+2 (step back and forth), so they settle into period 2.  They
    end just before the first rows equal to those two lengths shorter, and
    the rows of any greater length are the last yielded of the same parity."""
    older, before, rows = None, None, g.adj
    while rows != older:
        yield rows
        older, before, rows = before, rows, tuple(union_of(rows, a) for a in g.adj)


def min_odd_closed_walk(g: Graph) -> int | None:
    """Length of the shortest odd closed walk, or None when bipartite: the
    first odd length at which some vertex's row in ``walk_rows`` holds the
    vertex itself.  A loop gives 1."""
    for j, rows in enumerate(walk_rows(g), 1):
        if j % 2 and any(row >> v & 1 for v, row in enumerate(rows)):
            return j
    return None


def max_degree(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(row.bit_count() for row in g.adj)


# -- text format --------------------------------------------------------------
#
#   p <n> <m>
#   e <u> <v>        (m lines, written with u <= v, sorted)
#   l <v> <label>    (only when the graph carries labels; label may contain
#                     spaces and runs to end of line)

def format_graph(g: Graph) -> str:
    lines = [f"p {g.n} {g.edge_count()}"]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    if g.labels is not None:
        lines += [f"l {v} {g.labels[v]}" for v in range(g.n)]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    used: set[str] = set()  # the labels given so far
    for lineno, line, parts in records(text):
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise ParseError("duplicate p line", lineno)
            if len(parts) != 3:
                raise ParseError("p line must be 'p <n> <m>'", lineno)
            n, m = ints(parts[1:], "p line fields must be integers", lineno)
            if n < 0 or m < 0:
                raise ParseError("p line fields must be nonnegative", lineno)
            if n > (budget := DEFAULT_BUDGETS.vertex_budget):
                raise ParseError(f"{n} vertices exceed the vertex budget {budget}", lineno)
        elif kind == "e":
            if n is None:
                raise ParseError("e line before p line", lineno)
            if len(parts) != 3:
                raise ParseError("e line must be 'e <u> <v>'", lineno)
            u, v = ints(parts[1:], "e line fields must be integers", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u}, {v}) out of range", lineno)
            edges.append((u, v))
        elif kind == "l":
            if n is None:
                raise ParseError("l line before p line", lineno)
            parts = line.split(maxsplit=2)
            if len(parts) != 3:
                raise ParseError("l line must be 'l <v> <label>'", lineno)
            [v] = ints(parts[1:2], "l line vertex must be an integer", lineno)
            if not 0 <= v < n:
                raise ParseError(f"label vertex {v} out of range", lineno)
            if v in labels:
                raise ParseError(f"duplicate label for vertex {v}", lineno)
            if (label := parts[2]) in used:
                raise ParseError(f"label {label!r} already used", lineno)
            used.add(label)
            labels[v] = label
        else:
            raise ParseError(f"unknown line kind {kind!r}", lineno)
    if n is None:
        raise ParseError("missing p line")
    if m is not None and len(edges) != m:
        raise ParseError(f"p line announced {m} edges, found {len(edges)}")
    label_tuple = None
    if labels:
        if len(labels) != n:
            raise ParseError("labels must be total when present")
        label_tuple = tuple(labels[v] for v in range(n))
    try:
        return Graph.from_edges(n, edges, label_tuple)
    except ResourceError as exc:
        raise ParseError(str(exc)) from None
