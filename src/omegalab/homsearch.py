"""Complete homomorphism search by backtracking with constraint propagation.

A returned map is always validated; a ``None`` answer is only produced by
an exhausted complete search, never by a budget cutoff (budget exhaustion
raises ``ResourceError`` instead, so downstream certificates cannot
mistake a timeout for a proof).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bits
from .errors import ParameterError, PreconditionError, ResourceError
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
    loops_h = 0
    for w in range(h.n):
        if h.adj[w] >> w & 1:
            loops_h |= 1 << w

    dom = [full] * n
    for v in range(n):
        if g.adj[v] >> v & 1:
            dom[v] = loops_h  # a looped vertex can only land on a loop
            if dom[v] == 0:
                return None

    order = sorted(range(n), key=lambda v: (-g.degree(v), v))

    nbrs = [[u for u in bits(g.adj[v]) if u != v] for v in range(n)]
    adj_h = h.adj
    nodes = 0
    trail: list[tuple[int, int]] = []  # (variable, its domain before a change)

    def revise(u: int, w: int) -> bool:
        """Drop values of u without a supporting neighbor value at w."""
        du = dom[u]
        dw = dom[w]
        new = 0
        m = du
        while m:
            low = m & -m
            m ^= low
            if adj_h[low.bit_length() - 1] & dw:
                new |= low
        if new == du:
            return False
        trail.append((u, du))
        dom[u] = new
        return True

    def propagate(start: int) -> bool:
        queue = [(u, start) for u in nbrs[start]]
        while queue:
            u, w = queue.pop()
            if revise(u, w):
                if dom[u] == 0:
                    return False
                queue.extend((x, u) for x in nbrs[u] if x != w)
        return True

    # depth-first with an explicit stack of (position, untried values, trail
    # length on reaching the position); undoing the trail restores the domains
    stack = [(0, dom[order[0]], 0)]
    while stack:
        pos, untried, mark = stack.pop()
        if not untried:
            continue
        low = untried & -untried
        stack.append((pos, untried ^ low, mark))
        nodes += 1
        if nodes > cfg.node_budget:
            raise ResourceError(f"search node budget {cfg.node_budget} exhausted")
        while len(trail) > mark:
            v, d = trail.pop()
            dom[v] = d
        var = order[pos]
        trail.append((var, dom[var]))
        dom[var] = low
        if propagate(var):
            if pos + 1 == n:
                return Homomorphism(g, h, tuple(dom[v].bit_length() - 1 for v in range(n)))
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
    from .errors import ParseError

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
