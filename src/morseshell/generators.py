"""Constructive sources of shelled objects: greedy shellings of closed
surfaces, staircase prism triangulations and the tiled handles cut out of
them."""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Iterable

from .complexes import (
    SimplicialComplex,
    Simplex,
    _Record,
    connected_components,
    is_closed_surface,
    make_complex,
    simplex,
)
from .tiles import MorseTile
from .tiling import MorseTiling, _Covered, attach


def shell_surface(K: SimplicialComplex,
                  start: Iterable[int] | None = None) -> MorseTiling:
    """Greedy Morse shelling of a closed triangulated surface.

    Each component starts with a closed triangle; afterwards the triangle
    across the least frontier edge (an edge with one shelled triangle) is
    attached, its unshelled part being a Morse tile.  No regular tile of
    order zero appears after the first tile of a component.
    """
    if not is_closed_surface(K):
        raise ValueError("input is not a closed triangulated surface")
    up = K.cofacets
    chosen_start = None if start is None else simplex(start)
    if chosen_start is not None and up.get(chosen_start) != ():  # not a top face
        raise ValueError(f"start {chosen_start} is not a triangle of the complex")

    tiles: list[MorseTile] = []
    covered: set[Simplex] = set()
    # on a closed surface every link is connected, so the vertex components
    # are the triangle components, ordered by least triangle
    for comp in connected_components(K):
        t = chosen_start if chosen_start in comp.maximal_simplices \
            else comp.maximal_simplices[0]
        # a heap of the edges of shelled triangles, which are the covered
        # ones; an edge with both triangles covered is skipped when popped
        frontier: list[Simplex] = []
        while t is not None:
            tile, ext = attach(t, covered)
            tiles.append(tile)
            covered |= ext
            for e in combinations(t, 2):
                heapq.heappush(frontier, e)
            t = None
            while frontier and t is None:
                e = heapq.heappop(frontier)
                nxt = [x for x in up[e] if x not in covered]
                if len(nxt) > 1:
                    raise RuntimeError(
                        f"frontier edge {e} has {len(nxt)} unshelled triangles;"
                        " the closed-surface invariant failed")
                if nxt:
                    t = nxt[0]
    if len(tiles) != len(K.maximal_simplices):
        raise RuntimeError("ran out of frontier edges before covering a"
                           " component")
    return MorseTiling.over_complex(K, tiles, ordered=True)


class PrismTriangulation(_Record):
    """Staircase triangulation of the prism over a simplex, with its two
    base labelings and the staircase shelling order."""

    def __init__(self, complex: SimplicialComplex, bottom: tuple[int, ...],
                 top: tuple[int, ...], simplex_order: tuple[Simplex, ...]) -> None:
        self.complex = complex
        self.bottom = bottom
        self.top = top
        self.simplex_order = simplex_order


def prism_triangulation(n: int) -> PrismTriangulation:
    """Triangulate the product of a segment with an (n-1)-simplex into n
    staircase simplices.

    Vertex (0, j) of the product gets id j, vertex (1, j) gets id n + j.
    The i-th simplex meets the bottom base in dimension n - i and the top
    base in dimension i - 1; the staircase order is a classical shelling.
    """
    if n < 2:
        raise ValueError("prism dimension must be at least 2")
    order = []
    for i in range(1, n + 1):
        sigma = tuple(range(0, n - i + 1)) + tuple(range(2 * n - i, 2 * n))
        order.append(tuple(sorted(sigma)))
    K = make_complex(order, name=f"prism-{n}")
    return PrismTriangulation(K, tuple(range(n)), tuple(range(n, 2 * n)),
                              tuple(order))


HANDLE_VARIANTS = ("one-handle", "co-handle", "lateral")


def handle_tiling(n: int, variant: str) -> MorseTiling:
    """Morse tiling of a handle carved out of the staircase prism.

    one-handle: open segment times closed simplex (both closed bases
    removed); a single critical tile of index 1.  co-handle: closed segment
    times open simplex (lateral boundary removed); a single critical tile
    of index n-1.  lateral: half-open segment times closed simplex (one
    base removed); basic tiles of order one only.
    """
    if variant not in HANDLE_VARIANTS:
        raise ValueError(f"variant must be one of {HANDLE_VARIANTS}")
    prism = prism_triangulation(n)
    K = prism.complex
    segment_part = {v: 0 if v < n else 1 for v in K.vertices}
    simplex_part = {v: v % n for v in K.vertices}

    if variant == "one-handle":
        carrier = frozenset(f for f in K.faces
                            if {segment_part[v] for v in f} == {0, 1})
    elif variant == "co-handle":
        carrier = frozenset(f for f in K.faces
                            if {simplex_part[v] for v in f} == set(range(n)))
    else:
        bottom = set(prism.bottom)
        carrier = frozenset(f for f in K.faces if not set(f) <= bottom)

    tiles: list[MorseTile] = []
    covered = _Covered(carrier.__contains__)
    for sigma in prism.simplex_order:
        tile, ext = attach(sigma, covered)
        tiles.append(tile)
        covered.attached |= ext
    return MorseTiling(K, carrier, tuple(tiles), ordered=True)
