"""Exact realization of the averaging map from the refined box complex down
to the base box complex, with its carrier simplices and the 6D/k diameter
bound.

Every coordinate is a sum of weights 1/((k+1) * |component|), so all of
them are integers over one common denominator, (k+1) times the lcm of the
component sizes that occur.  A point is stored as its integer numerators
and a squared distance is an integer over the denominator squared.
Diameters are returned as ``fractions.Fraction`` values and compared
against (6D/k)^2 with a strict inequality in Q.  Every value on the way is
an integer or a ratio of integers, so nothing is ever rounded.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .bitset import bits, union_of
from .boxcomplex import Z2Complex, build_box
from .errors import DEFAULT_BUDGETS, ContractError, ParameterError, PreconditionError
from .functors import Adjoint, omega
from .graphs import Graph, max_degree

IntPoint = dict[int, int]  # target token -> numerator over the map's denominator


@dataclass
class ApproxMap:
    """The vertexwise averaging map from the box complex of the adjoint graph
    at odd index 2k+1 into the box complex of the base graph."""

    g: Graph
    k: int
    adjoint: Adjoint
    source: Z2Complex
    target: Z2Complex
    denominator: int  # common denominator of every coordinate
    points: list[IntPoint]  # indexed by source token; numerators sum to denominator
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
    sizes = {comp.bit_count() for v in source.base for comp in adjoint.tuples[v]}
    denominator = ncomp * lcm(*sizes)

    points: list[IntPoint] = []
    carriers: list[int] = []
    for token in range(source.token_count):
        vertex, shore = source.token_name(token)
        tup = adjoint.tuples[vertex]
        point: IntPoint = {}
        carrier = 0
        # shore of component i alternates, starting at the token's own shore
        for i, comp in enumerate(tup):
            black = (i % 2 == 1) ^ (shore == "-")
            weight = denominator // (ncomp * comp.bit_count())
            for v in bits(comp):
                t = target.token(tpos[v], black)
                point[t] = point.get(t, 0) + weight
                carrier |= 1 << t
        if sum(point.values()) != denominator:
            raise ContractError("averaging numerators do not sum to the denominator")
        points.append(point)
        carriers.append(carrier)
    return ApproxMap(g, k, adjoint, source, target, denominator, points, carriers)


def distance_sq(a: IntPoint, b: IntPoint) -> int:
    """Squared distance between two image points of one map: the numerator
    over that map's denominator squared."""
    return sum((a.get(t, 0) - b.get(t, 0)) ** 2 for t in a.keys() | b.keys())


def image_diameters_sq(amap: ApproxMap, masks: Iterable[int]) -> list[Fraction]:
    """The squared image diameter of each simplex in ``masks``: the largest
    squared distance between image points of its tokens, since the image is
    their convex hull.  One pass measures each token pair once."""
    points, n = amap.points, amap.source.token_count
    denominator_sq = amap.denominator**2
    measured: dict[int, int] = {}  # t * n + u -> distance_sq, for t < u
    out = []
    for mask in masks:
        best = 0
        for t, u in combinations(bits(mask), 2):
            d = measured.get(t * n + u)
            if d is None:
                d = measured[t * n + u] = distance_sq(points[t], points[u])
            if d > best:
                best = d
        out.append(Fraction(best, denominator_sq))
    return out


def max_facet_diameter_sq(amap: ApproxMap) -> Fraction:
    return max(image_diameters_sq(amap, amap.source.facets), default=Fraction(0))


def diameter_bound(g: Graph, k: int) -> Fraction:
    if k < 1:
        raise ParameterError("half index must be >= 1")
    return Fraction(6 * max_degree(g), k)


def carrier_check(amap: ApproxMap) -> bool:
    """Every facet's pooled image support must be a simplex of the target.

    Because supports contain the head vertex's own token, this also
    witnesses that the straight-line homotopy to the head projection stays
    inside the carrier simplex.
    """
    for f in amap.source.facets:
        if not amap.target.membership(amap.carrier_of(f)):
            return False
    return True


def equivariant(amap: ApproxMap) -> bool:
    """Image of the mirrored token is the coordinate-wise mirrored point."""
    for token in range(amap.source.token_count):
        mirrored = {amap.target.mirror_token(t): c for t, c in amap.points[token].items()}
        if mirrored != amap.points[amap.source.mirror_token(token)]:
            return False
    return True
