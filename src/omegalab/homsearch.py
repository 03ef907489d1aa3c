"""Complete homomorphism search by backtracking with arc consistency.

Every source vertex v keeps a domain of target vertices and a support set,
the union of the target's adjacency rows over that domain.  Revising a
neighbour of v is one AND of its domain with v's support, and v goes back
on the propagation queue only when its support shrinks: AC-3 (Mackworth,
1977) with the set-valued revision of AC-2001 (Bessiere et al., 2005).

A returned map is always validated; a ``None`` answer is only produced by
an exhausted complete search, never by a budget cutoff (budget exhaustion
raises ``ResourceError`` instead, so downstream certificates cannot
mistake a timeout for a proof).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bits, mask_of, union_of
from .errors import ParameterError, ParseError, PreconditionError, ResourceError
from .functors import Homomorphism
from .graphs import Graph, clique

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class HomSearchConfig:
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.node_budget <= 0:
            raise ParameterError("node budget must be positive")


DEFAULT_CONFIG = HomSearchConfig()


def hom_exists(g: Graph, h: Graph, cfg: HomSearchConfig = DEFAULT_CONFIG):
    """Return a validated homomorphism g -> h, or None if none exists."""
    n = g.n
    if n == 0:
        return Homomorphism(g, h, ())
    if h.n == 0:
        return None

    full = (1 << h.n) - 1
    loops_h = mask_of(w for w in range(h.n) if h.adj[w] >> w & 1)
    # a looped vertex can only land on a loop
    dom = [loops_h if g.adj[v] >> v & 1 else full for v in range(n)]
    if not all(dom):
        return None

    order = sorted(range(n), key=lambda v: (-g.degree(v), v))

    nbrs = [[u for u in bits(g.adj[v]) if u != v] for v in range(n)]
    adj_h = h.adj
    # sup[v] is the union of adj_h over dom[v]; whenever the queue is empty
    # it contains dom[x] for every neighbour x of v
    first = {d: union_of(adj_h, d) for d in {full, loops_h}}  # the two initial domains
    sup = [first[d] for d in dom]
    nodes = depth = 0  # depth: most variables assigned with propagation succeeding
    trail: list[tuple[int, int, int]] = []  # (variable, domain, support) before a change

    def propagate(start: int) -> bool:
        queue = [start]  # variables whose support shrank
        while queue:
            w = queue.pop()
            sw = sup[w]
            for u in nbrs[w]:
                du = dom[u]
                new = du & sw
                if new != du:
                    if not new:
                        return False
                    trail.append((u, du, sup[u]))
                    dom[u] = new
                    new = union_of(adj_h, new)
                    if new != sup[u]:
                        sup[u] = new
                        queue.append(u)
        return True

    # the root is made arc consistent once; its narrowing is never undone
    if not all(propagate(v) for v in range(n)):
        return None
    trail.clear()

    # depth-first with an explicit stack of (position, untried values, trail
    # length on reaching the position); undoing the trail restores the domains
    # and supports
    stack = [(0, dom[order[0]], 0)]
    while stack:
        pos, untried, mark = stack.pop()
        if not untried:
            continue
        low = untried & -untried
        stack.append((pos, untried ^ low, mark))
        nodes += 1
        if nodes > cfg.node_budget:
            raise ResourceError(
                f"search node budget {cfg.node_budget} exhausted at depth {depth} of {n}"
            )
        while len(trail) > mark:
            v, d, s = trail.pop()
            dom[v] = d
            sup[v] = s
        var = order[pos]
        trail.append((var, dom[var], sup[var]))
        dom[var] = low
        sup[var] = adj_h[low.bit_length() - 1]
        if propagate(var):
            if pos + 1 == n:
                return Homomorphism(g, h, tuple(dom[v].bit_length() - 1 for v in range(n)))
            depth = max(depth, pos + 1)
            stack.append((pos + 1, dom[order[pos + 1]], len(trail)))
    return None


def chromatic_number(g: Graph, cfg: HomSearchConfig = DEFAULT_CONFIG) -> int:
    """Least n such that g maps into the n-clique; g must be loopless."""
    if g.has_loops():
        raise PreconditionError("chromatic number is undefined for looped graphs")
    if g.n == 0:
        return 0
    if all(row == 0 for row in g.adj):
        return 1
    lower = _greedy_clique(g)
    for n in range(lower, g.n + 1):
        if hom_exists(g, clique(n), cfg) is not None:
            return n
    raise AssertionError("unreachable: a loopless graph is n-colorable")


def _greedy_clique(g: Graph) -> int:
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    members: list[int] = []
    for v in order:
        if all(g.has_edge(v, u) for u in members):
            members.append(v)
    return len(members)


def hom_equivalent(g: Graph, h: Graph, cfg: HomSearchConfig = DEFAULT_CONFIG):
    """(equivalent?, witness g->h, witness h->g)."""
    fwd = hom_exists(g, h, cfg)
    back = hom_exists(h, g, cfg)
    return fwd is not None and back is not None, fwd, back


# -- witness file format: one line "m <u> <f(u)>" per source vertex -----------

def format_witness(hom: Homomorphism) -> str:
    return "".join(f"m {u} {hom(u)}\n" for u in range(hom.source.n))


def parse_witness(text: str, source: Graph, target: Graph) -> Homomorphism:
    assigned: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "m":
            raise ParseError("witness line must be 'm <u> <v>'", lineno)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError("witness fields must be integers", lineno) from None
        if u in assigned:
            raise ParseError(f"duplicate assignment for vertex {u}", lineno)
        assigned[u] = v
    if sorted(assigned) != list(range(source.n)):
        raise ParseError("witness must assign every source vertex exactly once")
    return Homomorphism(source, target, tuple(assigned[u] for u in range(source.n)))
