"""The three odd-index graph functors and the explicit witness constructions.

``subdivide`` replaces every edge by a path of k edges, ``walk_power``
joins vertices connected by a walk of length exactly k, and ``omega`` is
the right adjoint to ``walk_power``: its vertices are tuples of nested
neighborhood sets.  All three take the odd index k as their parameter.
The walk power and the adjunction witness into ``omega`` read the walks of
each exact length from one recurrence, ``graphs.walk_rows``.

A result holds only what defines it.  ``subdivide`` returns a
``Subdivision``, whose layout is arithmetic: vertices 0..n-1 are the base
vertices, and the k-1 interior vertices of the e-th edge of
``base.edges()`` are n + e(k-1) + pos - 1, pos = 1..k-1 counted from the
edge's lesser end.  ``omega``, ``omega_prime`` and ``shortcut`` return an
``Adjoint``, whose ``tuples[i]`` is the tuple behind vertex i.  Above
index 1 its graph carries no labels: a tuple's label (``omega_label``) is
made only when ``Adjoint.labels`` is read, as the CLI does when it writes
the graph.

Tuple components are stored as int bitmasks over the base graph.  A tuple
(A_0, ..., A_l) requires A_0 to be a singleton, every component nonempty,
and consecutive components fully joined.  A tuple with an empty component
has no neighbours, so it is isolated, and ``build_box`` drops isolated
vertices; such tuples are not enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .bitset import bits, holders, mask_of
from .errors import DEFAULT_BUDGETS, ContractError, ParameterError, PreconditionError, ResourceError
from .graphs import Graph, common_neighborhood, walk_rows

OmegaTuple = tuple[int, ...]


@dataclass(frozen=True)
class Homomorphism:
    """Edge-preserving vertex map, validated on construction."""

    source: Graph
    target: Graph
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.source.n:
            raise ContractError("mapping must be total on the source")
        # every image in range before any edge test reads one
        for u, fu in enumerate(self.mapping):
            if not 0 <= fu < self.target.n:
                raise ContractError(f"image of {u} out of range")
        for u, fu in enumerate(self.mapping):
            for v in bits(self.source.adj[u]):
                if v < u:
                    continue
                if not self.target.has_edge(fu, self.mapping[v]):
                    raise ContractError(
                        f"edge ({u}, {v}) maps to non-edge ({fu}, {self.mapping[v]})"
                    )

    @classmethod
    def identity(cls, g: Graph) -> "Homomorphism":
        return cls(g, g, tuple(range(g.n)))

    def __call__(self, v: int) -> int:
        return self.mapping[v]

    def compose(self, first: "Homomorphism") -> "Homomorphism":
        """self o first (apply ``first``, then ``self``)."""
        if first.target.adj != self.source.adj:
            raise ContractError("composition mismatch: inner target != outer source")
        return Homomorphism(
            first.source, self.target, tuple(self.mapping[x] for x in first.mapping)
        )

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)


@dataclass(frozen=True)
class Subdivision:
    """The k-subdivision ``graph`` of ``base``, in the module's arithmetic
    layout, which ``subdivision_path`` reads."""

    graph: Graph
    k: int
    base: Graph

    @cached_property
    def edge_ids(self) -> dict[tuple[int, int], int]:
        """The position of each edge (u, v), u <= v, in ``base.edges()``."""
        return {e: i for i, e in enumerate(self.base.edges())}


@dataclass(frozen=True)
class Adjoint:
    """The right adjoint omega(base, k), or its shortcut extension:
    ``tuples[i]`` is the component tuple behind vertex i of ``graph``, and
    ``index_of`` inverts it from a dict built on its first call.  ``graph``
    has no labels (at k = 1 it is ``base`` as given); ``labels`` names
    every vertex by its tuple's ``omega_label``, made on its first read."""

    graph: Graph
    k: int
    base: Graph
    tuples: tuple[OmegaTuple, ...]

    @cached_property
    def _index(self) -> dict[OmegaTuple, int]:
        return {t: i for i, t in enumerate(self.tuples)}

    def index_of(self, tup: OmegaTuple) -> int:
        return self._index[tup]

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(map(omega_label, self.tuples))


def _require_odd(k: int, minimum: int = 1) -> None:
    if k % 2 == 0:
        raise ParameterError(f"functor index must be odd, got {k}")
    if k < minimum:
        raise ParameterError(f"functor index must be >= {minimum}, got {k}")


# -- subdivision --------------------------------------------------------------

def subdivide(
    g: Graph, k: int, vertex_budget: int = DEFAULT_BUDGETS.vertex_budget
) -> Subdivision:
    """Replace every edge by a path of k edges (k odd; k = 1 returns g).

    Loops become closed walks of length k through the original vertex.
    Interior vertices are labeled "<u>-<v>/<pos>".  The n + m(k-1)
    vertices count against ``vertex_budget`` before any is built.
    """
    _require_odd(k)
    if k == 1:
        return Subdivision(g, 1, g)
    edges = g.edges()
    n_new = g.n + len(edges) * (k - 1)
    if n_new > vertex_budget:
        raise ResourceError(
            f"subdivision vertex budget {vertex_budget} exceeded at k={k} ({n_new} vertices)"
        )
    labels = [g.label_of(v) for v in range(g.n)]
    path_edges = []
    nxt = g.n
    for u, v in edges:
        chain = [u] + list(range(nxt, nxt + k - 1)) + [v]
        for pos in range(1, k):
            labels.append(f"{u}-{v}/{pos}")
        nxt += k - 1
        path_edges += zip(chain, chain[1:])
    graph = Graph.from_edges(n_new, path_edges, labels)
    return Subdivision(graph, k, g)


def subdivision_path(res: Subdivision, a: int, b: int) -> list[int]:
    """Vertices of the subdivision path from a to b, counting a as 0th."""
    e = res.edge_ids.get((a, b) if a <= b else (b, a))
    if e is None:
        raise ContractError(f"({a}, {b}) is not an edge of the base graph")
    start = res.base.n + e * (res.k - 1)
    interior = range(start, start + res.k - 1)
    return [a, *(interior if a <= b else reversed(interior)), b]


# -- walk power ----------------------------------------------------------------

def walk_power(g: Graph, k: int) -> Graph:
    """Same vertices; u ~ v iff some walk of length exactly k joins them: the
    rows of ``walk_rows`` at length k, or past their last, the last odd ones."""
    _require_odd(k)
    for j, rows in enumerate(walk_rows(g), 1):
        if j % 2:
            odd = rows
        if j == k:
            break
    return Graph(g.n, odd)


# -- right adjoint -------------------------------------------------------------

def omega(g: Graph, k: int, vertex_budget: int = DEFAULT_BUDGETS.vertex_budget) -> Adjoint:
    """Right adjoint to the k-th walk power (k odd; k = 1 returns g).

    Vertices are tuples (A_0, ..., A_l), l = (k-1)/2, with A_0 a singleton
    and consecutive components fully joined; all components nonempty.
    Enumeration is depth-first, extending by nonempty subsets of the common
    neighborhood in ascending bitmask order.  This enumeration order is the
    canonical vertex order relied on by the Morse matchings.  Beyond index 7
    a tuple counts as (k+1)/8 vertices against ``vertex_budget``.
    """
    _require_odd(k)
    if k == 1:
        return Adjoint(g, 1, g, tuple((1 << v,) for v in range(g.n)))
    depth = (k - 1) // 2
    cap = vertex_budget * 4 // max(depth + 1, 4)  # a long tuple is several vertices
    over = f"omega vertex budget {vertex_budget} exceeded at k={k}"
    if cap < 1 and any(g.adj):
        raise ResourceError(f"{over} (one tuple has {depth + 1} components)")
    tuples: list[OmegaTuple] = []
    for v in range(g.n):
        # depth-first over one prefix: component i > 0 steps through the nonempty
        # subsets of pools[i] in ascending order, x -> (x - m) & m
        prefix, pools = [1 << v], [0]
        while prefix:
            if len(prefix) > depth:
                tuples.append(tuple(prefix))
                if len(tuples) > cap:
                    raise ResourceError(f"{over} ({len(tuples)} tuples of {depth + 1} components)")
            elif pool := common_neighborhood(g, prefix[-1]):  # empty only below an isolated head
                pools.append(pool)
                prefix.append(pool & -pool)
                continue
            while prefix and not (prefix[-1] - pools[-1]) & pools[-1]:
                prefix.pop()
                pools.pop()
            if prefix:
                prefix[-1] = (prefix[-1] - pools[-1]) & pools[-1]

    graph = Graph(len(tuples), _omega_rows(g, tuples, depth))
    return Adjoint(graph, k, g, tuple(tuples))


def _omega_rows(g: Graph, tuples: list[OmegaTuple], depth: int) -> tuple[int, ...]:
    """Adjacency rows of the omega tuples: b ~ a iff the tails are joined,
    b[-1] <= CN(a[-1]), and b[i] >= a[i-1] and b[i-1] <= a[i] for every
    i >= 1.  A loop at a tuple arises iff the base graph has loops.

    A row starts full and meets the conditions on b's components from the
    tail down.  At component i each condition is an AND with the holder set
    of a vertex it names (``bitset.holders``: the tuples whose component i
    holds that vertex) or with its complement.  Once a row has no more
    candidates than the component above had holder sets, they are tested
    one pair at a time.  Component i's holder sets are built the first time
    a row reaches it unsettled: one n-bit set per vertex that occurs in
    component i.  So holder memory is at most |V| n bits for each component
    some row reaches unsettled, and a few long tuples, which settle just
    below the tail, build the tail's sets alone."""
    levels: dict[int, dict[int, int]] = {}
    rows = []
    for a in tuples:
        row, upper, held = (1 << len(tuples)) - 1, common_neighborhood(g, a[-1]), None
        for i in range(depth, -1, -1):
            if held is not None and row.bit_count() <= len(held):
                row = _settle(tuples, a, bits(row), i)
                break
            if (held := levels.get(i)) is None:
                held = levels[i] = holders([t[i] for t in tuples])
            for v, h in held.items():
                if not upper >> v & 1:  # b[i] <= a[i+1], or the tail's join
                    row &= ~h
            for v in bits(a[i - 1]) if i else ():  # b[i] >= a[i-1]
                row &= held.get(v, 0)
            upper = a[i]
        rows.append(row)
    return tuple(rows)


def _settle(tuples: list[OmegaTuple], a: OmegaTuple, candidates, top: int) -> int:
    """The set of candidates b that nest with ``a`` in every component
    i <= ``top`` < depth, b[i] <= a[i+1] and b[i] >= a[i-1], tested one
    pair at a time."""
    row = 0
    for m in candidates:
        b, i = tuples[m], top
        fails = b[i] & ~a[i + 1]
        while not fails and i:
            fails = a[i - 1] & ~b[i] or b[i - 1] & ~a[i]
            i -= 1
        if not fails:
            row |= 1 << m
    return row


def omega_label(tup: OmegaTuple) -> str:
    """Label grammar: v{m1 m2 ...}|{...}|... with members ascending."""
    head = next(bits(tup[0]))
    groups = ["{" + " ".join(str(m) for m in bits(comp)) + "}" for comp in tup[1:]]
    return str(head) + "|".join(groups)


def base_projection(res: Adjoint) -> Homomorphism:
    """The homomorphism onto the base graph sending a tuple to its head vertex."""
    mapping = tuple(next(bits(t[0])) for t in res.tuples)
    return Homomorphism(res.graph, res.base, mapping)


def truncate_projection(res: Adjoint, lower: Adjoint) -> Homomorphism:
    """Drop the last tuple component: a verified step from index k to k-2."""
    mapping = tuple(lower.index_of(t[:-1]) for t in res.tuples)
    return Homomorphism(res.graph, lower.graph, mapping)


# -- the saturation map and the shortcut graph --------------------------------

def saturate_tail(g: Graph, tup: OmegaTuple) -> OmegaTuple:
    """Replace the last component by the common neighborhood of the one before.

    Idempotent; fixes exactly the tuples whose tail is already maximal.
    """
    if len(tup) < 2:
        raise PreconditionError("saturation needs a tuple with at least two components")
    return tup[:-1] + (common_neighborhood(g, tup[-2]),)


def omega_prime(
    g: Graph, k: int, vertex_budget: int = DEFAULT_BUDGETS.vertex_budget
) -> Adjoint:
    """Shortcut extension of omega(g, k), k odd >= 3."""
    _require_odd(k, minimum=3)
    base = omega(g, k, vertex_budget)
    return shortcut(base, saturation_indices(g, base))


def shortcut(base: Adjoint, sat: list[int]) -> Adjoint:
    """Shortcut extension of an omega result of index >= 3, given its
    ``saturation_indices``: same vertices, and for every edge {a, b} also
    edges from a and b to the saturated partners."""
    _require_odd(base.k, minimum=3)
    rows = list(base.graph.adj)
    for i in range(base.graph.n):
        for j in bits(base.graph.adj[i]):
            if j < i:
                continue
            for x, y in ((i, sat[j]), (sat[i], j), (sat[i], sat[j])):
                rows[x] |= 1 << y
                rows[y] |= 1 << x
    return Adjoint(Graph(base.graph.n, tuple(rows)), base.k, base.base, base.tuples)


def saturation_indices(g: Graph, res: Adjoint) -> list[int]:
    """Index of the saturated partner of every tuple vertex."""
    return [res.index_of(saturate_tail(g, t)) for t in res.tuples]


# -- adjunction witnesses ------------------------------------------------------

def adjoint_witness_to_omega(
    g: Graph, f: Homomorphism, omega_h: Adjoint
) -> Homomorphism:
    """Turn f : walk_power(g, k) -> H into a witness g -> omega(H, k).

    v maps to the tuple of image sets of its rows in ``walk_rows`` at the
    lengths i = 0..l, length 0 being v itself.  Isolated vertices of g are
    unconstrained and go to vertex 0 of the target.
    """
    if f.source.adj != walk_power(g, omega_h.k).adj:
        raise ContractError("witness source is not the expected walk power")
    depth = (omega_h.k - 1) // 2
    walks = [tuple(1 << v for v in range(g.n)), *islice(walk_rows(g), depth)]
    while len(walks) <= depth:  # past the last rows, period 2
        walks.append(walks[-2])
    mapping = [0] * g.n
    for v in range(g.n):
        if g.adj[v]:
            mapping[v] = omega_h.index_of(tuple(mask_of(f(u) for u in bits(w[v])) for w in walks))
    return Homomorphism(g, omega_h.graph, tuple(mapping))


def adjoint_witness_from_omega(
    f: Homomorphism, omega_h: Adjoint
) -> Homomorphism:
    """Turn f : G -> omega(H, k) into a witness walk_power(G, k) -> H."""
    if f.target.adj != omega_h.graph.adj:
        raise ContractError("witness target is not the given omega graph")
    power_g = walk_power(f.source, omega_h.k)
    mapping = tuple(next(bits(omega_h.tuples[f(v)][0])) for v in range(f.source.n))
    return Homomorphism(power_g, omega_h.base, mapping)


# -- subdivision embedding and the square-free retraction ----------------------

def subdivision_embedding(
    g: Graph,
    k: int,
    gamma: Subdivision | None = None,
    omega_res: Adjoint | None = None,
) -> Homomorphism:
    """The per-edge path embedding of the k-subdivision into omega(g, k).

    Along the path replacing edge (a, b), position j goes to a tuple whose
    first components alternate between {a} and {b} and whose tail alternates
    between a singleton and a full neighborhood; positions past the middle
    use the mirrored pattern from the b side.  The resulting homomorphism is
    injective exactly when g has no vertex of degree one: a pendant edge
    collapses two path positions onto the same tuple.
    """
    _require_odd(k, minimum=3)
    if g.has_loops():
        raise PreconditionError("subdivision embedding requires a loopless graph")
    if gamma is None:
        gamma = subdivide(g, k)
    if omega_res is None:
        omega_res = omega(g, k)
    depth = (k - 1) // 2

    def row_tuple(a: int, b: int, j: int) -> OmegaTuple:
        # pattern for position j <= depth measured from the a end
        comps = []
        for i in range(depth + 1):
            if i <= j:
                comps.append(1 << (a if (j - i) % 2 == 0 else b))
            else:
                comps.append(g.adj[a] if (i - j) % 2 == 1 else 1 << a)
        return tuple(comps)

    mapping = [0] * gamma.graph.n
    for v in range(g.n):
        # isolated vertices are unconstrained; position-0 rows ignore b
        if g.adj[v]:
            mapping[v] = omega_res.index_of(row_tuple(v, next(bits(g.adj[v])), 0))
    for u, v in g.edges():
        for pos, idx in enumerate(subdivision_path(gamma, u, v)[1:-1], 1):
            if pos <= depth:
                mapping[idx] = omega_res.index_of(row_tuple(u, v, pos))
            else:
                mapping[idx] = omega_res.index_of(row_tuple(v, u, k - pos))
    return Homomorphism(gamma.graph, omega_res.graph, tuple(mapping))


def squarefree_retraction(
    g: Graph,
    k: int,
    gamma: Subdivision | None = None,
    omega_res: Adjoint | None = None,
) -> Homomorphism:
    """Retraction omega(g, k) -> subdivide(g, k) for square-free loopless g.

    A tuple with singleton prefix of length j+1 (j maximal) and A_1 = {b}
    goes to the path position i between a and b, where i = j when j is even
    and i = k - j when j is odd; tuples whose prefix stops at A_0 go to a.
    """
    from .graphs import is_square_free

    _require_odd(k, minimum=3)
    if g.has_loops():
        raise PreconditionError("square-free retraction requires a loopless graph")
    if not is_square_free(g):
        raise PreconditionError("graph is not square-free")
    if gamma is None:
        gamma = subdivide(g, k)
    if omega_res is None:
        omega_res = omega(g, k)

    mapping = []
    for tup in omega_res.tuples:
        a = next(bits(tup[0]))
        j = 0
        while j + 1 < len(tup) and tup[j + 1].bit_count() == 1:
            j += 1
        if j == 0:
            mapping.append(a)
            continue
        b = next(bits(tup[1]))
        pos = j if j % 2 == 0 else k - j
        mapping.append(subdivision_path(gamma, a, b)[pos])
    return Homomorphism(omega_res.graph, gamma.graph, tuple(mapping))
