"""Exact-rational realization of the averaging map from the refined box
complex down to the base box complex, with its carrier simplices and the
6D/k diameter bound.

All coordinates are ``fractions.Fraction``; the diameter comparison against
(6D/k)^2 is a strict inequality in Q, so no float ever enters the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bitset import bits, union_of
from .boxcomplex import Z2Complex, build_box
from .errors import DEFAULT_BUDGETS, ContractError, ParameterError, PreconditionError
from .functors import FunctorResult, omega
from .graphs import Graph, max_degree

RationalPoint = dict[int, Fraction]  # target token -> coordinate, sums to 1


@dataclass
class ApproxMap:
    """The vertexwise averaging map from the box complex of the adjoint graph
    at odd index 2k+1 into the box complex of the base graph."""

    g: Graph
    k: int
    adjoint: FunctorResult
    source: Z2Complex
    target: Z2Complex
    points: list[RationalPoint]  # indexed by source token
    carriers: list[int]  # target mask per source token

    def carrier_of(self, mask: int) -> int:
        return union_of(self.carriers, mask)


def build_approx_map(
    g: Graph, k: int, vertex_budget: int = DEFAULT_BUDGETS.vertex_budget
) -> ApproxMap:
    """Construct the map at half index k (adjoint functor index 2k+1), its
    adjoint graph bounded by ``vertex_budget`` as in ``omega``.

    A white tuple token averages the per-component shore-alternating
    averages: component i contributes its members on the white shore for
    even i and on the black shore for odd i, each with weight
    1/((k+1) * |component|); black tokens are mirrored.
    """
    if k < 1:
        raise ParameterError("half index must be >= 1")
    if g.has_loops():
        raise PreconditionError("the averaging map needs a loopless base graph")
    adjoint = omega(g, 2 * k + 1, vertex_budget)
    source = build_box(adjoint.graph)
    target = build_box(g)
    tpos = {v: i for i, v in enumerate(target.base)}
    ncomp = k + 1  # tuple components 0..k

    points: list[RationalPoint] = []
    carriers: list[int] = []
    for token in range(source.token_count):
        vertex, shore = source.token_name(token)
        tup = adjoint.tuples[vertex]
        point: RationalPoint = {}
        carrier = 0
        # shore of component i alternates, starting at the token's own shore
        for i, comp in enumerate(tup):
            black = (i % 2 == 1) ^ (shore == "-")
            size = comp.bit_count()
            weight = Fraction(1, ncomp * size)
            for v in bits(comp):
                t = target.token(tpos[v], black)
                point[t] = point.get(t, Fraction(0)) + weight
                carrier |= 1 << t
        if sum(point.values()) != 1:
            raise ContractError("averaging weights do not sum to one")
        points.append(point)
        carriers.append(carrier)
    return ApproxMap(g, k, adjoint, source, target, points, carriers)


def distance_sq(a: RationalPoint, b: RationalPoint) -> Fraction:
    total = Fraction(0)
    for t in set(a) | set(b):
        d = a.get(t, Fraction(0)) - b.get(t, Fraction(0))
        total += d * d
    return total


def simplex_image_diameter_sq(amap: ApproxMap, mask: int) -> Fraction:
    """Max squared distance between image points of the simplex's tokens;
    the image is their convex hull, so this is its squared diameter."""
    tokens = list(bits(mask))
    best = Fraction(0)
    for i, t in enumerate(tokens):
        for u in tokens[i + 1 :]:
            d = distance_sq(amap.points[t], amap.points[u])
            if d > best:
                best = d
    return best


def max_facet_diameter_sq(amap: ApproxMap) -> Fraction:
    best = Fraction(0)
    for f in amap.source.facets:
        d = simplex_image_diameter_sq(amap, f)
        if d > best:
            best = d
    return best


def diameter_bound(g: Graph, k: int) -> Fraction:
    return Fraction(6 * max_degree(g), k)


def carrier_check(amap: ApproxMap, target: Z2Complex | None = None) -> bool:
    """Every facet's pooled image support must be a simplex of the target.

    Because supports contain the head vertex's own token, this also
    witnesses that the straight-line homotopy to the head projection stays
    inside the carrier simplex.
    """
    tgt = amap.target if target is None else target
    for f in amap.source.facets:
        if not tgt.membership(amap.carrier_of(f)):
            return False
    return True


def equivariant(amap: ApproxMap) -> bool:
    """Image of the mirrored token is the coordinate-wise mirrored point."""
    for token in range(amap.source.token_count):
        mirrored = {amap.target.mirror_token(t): c for t, c in amap.points[token].items()}
        if mirrored != amap.points[amap.source.mirror_token(token)]:
            return False
    return True
